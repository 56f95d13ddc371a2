"""Pipeline benchmark: data -> init -> probe -> K -> surrogate -> ULA -> diagnostics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
Each pass calls `experiment.run_experiment` (single process) on the config the
workload generates from the seed, then checks every cell's output (see
checks.py).  Passes repeat until the next one would end after `--seconds`.

--trace 0 prints the end-to-end metrics: set-up time (median of several fresh
processes), wall time per pass, median cell time, ULA steps per second, peak
resident memory and the share of cells that pass their checks.  Times are
scaled to a fixed host speed, read from a reference loop run between the
timed pieces of work (hostspeed.py).

--trace 1 alternates untraced and traced passes (spans.py), then runs the
layer microbenchmarks (microbench.py), and prints the per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
a human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

# One BLAS thread: the matrices are small, and the recorded reference outputs
# must not depend on the thread count of the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import microbench  # noqa: E402
from checks import (REFERENCE_SEEDS, cell_outputs, cell_problem, files_problem,  # noqa: E402
                    load_reference)
from hostspeed import PERIOD_S, HostSpeed, loop_s, scaled  # noqa: E402
from setup_probe import set_up  # noqa: E402
from spans import LAYERS, Tracer, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
SETUP_LOOPS = 5  # reference loops on each side of a set-up process
GLUE_SPANS = ("experiment.run", "experiment.cell")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the reduced workload the self-tests run")
    return ap.parse_args(argv)


def time_setup(config_path, warmup_path, out_dir) -> float:
    """Wall time of one fresh set-up process, scaled by reference loops run
    just before and after it (see hostspeed.py)."""
    loops = [loop_s() for _ in range(SETUP_LOOPS)]
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms, which
    # would quantize the measurement; a blocking wait returns at the exit.
    t0 = perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                    str(config_path), str(warmup_path), str(out_dir)], check=True)
    seconds = perf_counter() - t0
    loops += [loop_s() for _ in range(SETUP_LOOPS)]
    return scaled(seconds, loops)


@contextmanager
def timing_cells(experiment, host, times):
    """Append the scaled wall time of every run_cell call to `times`."""
    run_cell = experiment.run_cell

    def timed(*args):
        out, _, cell_s = host.time(run_cell, *args)
        times.append(cell_s)
        return out

    experiment.run_cell = timed
    try:
        yield
    finally:
        experiment.run_cell = run_cell


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_metrics(tracer, wall: float, written: int) -> dict:
    own = {name: s[2] for name, s in tracer.stats.items()}
    # the glue spans hold whatever no layer span covers, so leave them out
    in_layers = sum(t for name, t in own.items()
                    if name.split(".")[0] in LAYERS and name not in GLUE_SPANS)
    counts = tracer.counts
    forward_calls = counts["forward.calls"]
    out = {
        "sampler.chain.self_s": own.get("sampler.chain", 0.0),
        "sampler.steps": counts["sampler.steps"],
        "sampler.guard_triggers": counts["sampler.guard_triggers"],
        "likelihood.calls.log_lik": tracer.calls("likelihood.log_lik"),
        "likelihood.calls.grad_log_lik": tracer.calls("likelihood.grad_log_lik"),
        "likelihood.calls.hess_dir_many": tracer.calls("likelihood.hess_dir_many"),
        "likelihood.probe.self_s": own.get("likelihood.probe", 0.0),
        "likelihood.probe.skipped": counts["likelihood.probe.skipped"],
        "forward.calls.solve": forward_calls - counts["forward.reused"],
        "forward.reuse_ratio": counts["forward.reused"] / forward_calls if forward_calls else 0.0,
        "initializers.self_s": tracer.self_s("initializers."),
        "initializers.pilot_ascent.objective_evals":
            counts["initializers.pilot_ascent.objective_evals"],
        "surrogate.setup.self_s": tracer.self_s("surrogate.setup."),
        "diagnostics.self_s": tracer.self_s("diagnostics."),
        "experiment.generate.self_s": own.get("experiment.generate", 0.0),
        "experiment.write.self_s": own.get("experiment.write", 0.0),
        "experiment.write.bytes": written,
        "trace.accounted_frac": in_layers / wall,
    }
    for region in ("inner", "annulus", "far"):
        out[f"surrogate.steps.{region}"] = counts["surrogate.steps." + region]
    return out


def run(workload, args, run_dir: Path) -> dict:
    config_path = run_dir / "workload.ini"
    warmup_path = run_dir / "warmup.ini"
    # Seeds map onto the ones reference.json records, so every cell of a
    # full-size run is checked against a recorded output.
    seed = args.seed % REFERENCE_SEEDS
    config_path.write_text(workload.config_ini(seed))
    warmup_path.write_text(workload.warmup_ini(seed))

    metrics = {}
    if not args.trace:
        setups = [time_setup(config_path, warmup_path, run_dir / f"setup{i}")
                  for i in range(SETUP_RUNS)]
        metrics["setup_s"] = statistics.median(setups)

    cfg = set_up(config_path, warmup_path, run_dir / "warmup")
    from surrogate_langevin import experiment

    reference = None
    if args.size == "full":
        # a missing entry leaves no cell with a reference, so every cell fails
        reference = load_reference(workload.name, seed) or ({}, 0.0, 0.0)
    first, problems = {}, []
    plain, traced_passes, cell_times = [], [], []  # times scaled to host speed
    host = HostSpeed()
    attempted = failed = 0
    start = perf_counter()
    k = 0
    while True:
        tracer = Tracer() if args.trace and k % 2 == 1 else None
        out = run_dir / f"pass{k}"
        times = [] if tracer else cell_times
        # A traced pass takes no timer samples, which would land in its spans.
        with traced(tracer) if tracer else nullcontext(), \
                host.sampling(None if tracer else PERIOD_S), \
                timing_cells(experiment, host, times):
            (results, _), wall, pass_s = host.time(experiment.run_experiment, cfg, out)

        files = files_problem(out, results, cfg.diagnostics)
        written = dir_bytes(out)
        shutil.rmtree(out)
        for cell in results:
            attempted += 1
            problem = files or cell_problem(cell, first.get((cell.n, cell.seed)), reference)
            if problem:
                failed += 1
                problems.append(f"pass {k} n={cell.n} seed={cell.seed}: {problem}")
            elif (cell.n, cell.seed) not in first:
                first[cell.n, cell.seed] = cell_outputs(cell)
        steps = sum(r.resolved["j_in"] + r.resolved["j"] for r in results if r.status == "ok")
        if tracer:
            traced_passes.append((pass_s, layer_metrics(tracer, wall, written), tracer))
        else:
            plain.append((pass_s, steps / pass_s))

        k += 1
        elapsed = perf_counter() - start
        if elapsed + wall > args.seconds and (not args.trace or k >= 2):
            break

    if args.trace:
        metrics.update(traced_metrics(plain, traced_passes))
    else:
        metrics["wall_s"] = statistics.median(w for w, _ in plain)
        metrics["cell_s.p50"] = statistics.median(cell_times)
        metrics["steps_per_s"] = statistics.median(r for _, r in plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["cells_ok_frac"] = (attempted - failed) / attempted

    summary(workload, args, seed, k, len(cell_times), reference, problems, metrics)
    print(f"[perfbench] reference loop: median {statistics.median(host.loops) * 1e3:.3f} ms "
          f"over {len(host.loops)} runs", file=sys.stderr)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def traced_metrics(plain, traced_passes) -> dict:
    out = {}
    for name in traced_passes[0][1]:
        out[name] = statistics.median_low(m[name] for _, m, _ in traced_passes)
    traced_wall = statistics.median(w for w, _, _ in traced_passes)
    out["trace_overhead_frac"] = traced_wall / statistics.median(w for w, _ in plain) - 1.0
    tracer = traced_passes[0][2]
    out.update(microbench.all_layers(tracer.first_spec, tracer.first_cell))
    return out


def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def summary(workload, args, seed, passes, cells, reference, problems, metrics):
    err = sys.stderr
    ref = "the recorded reference" if reference else "no reference (tiny size)"
    print(f"[perfbench] {workload.name} seed={args.seed} (inputs of seed {seed}) "
          f"trace={args.trace}: "
          f"{passes} passes, {cells} timed cells, checked against {ref}", file=err)
    for line in problems[:20]:
        print(f"[perfbench] FAILED {line}", file=err)
    for name, value in metrics.items():
        print(f"[perfbench]   {name:45s} {value:.6g}", file=err)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "surrogate_langevin" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload].sized(args.size)
    run_dir = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = run(workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
