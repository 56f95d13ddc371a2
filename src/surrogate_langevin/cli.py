"""Command-line front end: generate | sample | diagnose | experiment."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigValidationError, load_config
from .experiment import build_model, json_scalar, run_cell, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surrogate-langevin",
        description="Surrogate-posterior Langevin sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("generate", "draw a synthetic dataset and write it as CSV"),
        ("sample", "run one chain for the first (n, seed) cell"),
        ("diagnose", "run every (n, seed) cell with the grid-posterior, contraction "
                     "and condition-numbers diagnostics"),
        ("experiment", "run the full (n, p, seed) experiment matrix"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed-offset", type=int, default=0,
                       help="added to every seed in the config")
        if name in ("diagnose", "experiment"):  # the commands that run many cells
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="parallel worker processes for the cells (at least 1)")
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _out_dir(args, cfg) -> Path:
    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args, cfg) -> int:
    out = _out_dir(args, cfg)
    status = 0
    for n in cfg.n_grid:
        p = cfg.p_for(n)
        for seed in cfg.seeds:
            seed += args.seed_offset
            try:
                model, _ = build_model(cfg, n, p, seed)
                model.dataset.save(out / f"data_n{n}_p{p}_seed{seed}.csv")
            except Exception as exc:
                print(f"generate failed for n={n} seed={seed}: {exc}", file=sys.stderr)
                status = 1
    return status


def cmd_sample(args, cfg) -> int:
    out = _out_dir(args, cfg)
    cfg.diagnostics = []
    n = cfg.n_grid[0]
    seed = cfg.seeds[0] + args.seed_offset
    cell = run_cell(cfg, n, seed)
    if cell.status != "ok":
        print(f"sample failed for n={n} seed={seed}: {cell.message}", file=sys.stderr)
        return 1
    summary = {"n": n, "p": cell.p, "seed": seed,
               "posterior_mean": cell.trace.ergodic_average("identity").tolist(),
               "exit_step": cell.trace.exit_step,
               "resolved": {k: json_scalar(v) for k, v in cell.resolved.items()},
               **{k: v for k, v in cell.metrics.items() if k.startswith("drift_calls_")}}
    (out / "sample_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_diagnose(args, cfg) -> int:
    cfg.diagnostics = ["grid-posterior", "contraction", "condition-numbers"]
    results, report = run_experiment(cfg, out_dir=args.out,
                                     seed_offset=args.seed_offset, jobs=args.jobs)
    for r in results:
        print(f"cell n={r.n} p={r.p} seed={r.seed}: {r.status} {r.message}".rstrip())
    print(f"report: {report}")
    return 0 if all(r.status == "ok" for r in results) else 1


def cmd_experiment(args, cfg) -> int:
    results, report = run_experiment(cfg, out_dir=args.out,
                                     seed_offset=args.seed_offset, jobs=args.jobs)
    n_ok = sum(r.status == "ok" for r in results)
    print(f"{n_ok}/{len(results)} cells succeeded; report: {report}")
    for r in results:
        if r.status != "ok":
            print(f"  cell n={r.n} p={r.p} seed={r.seed}: {r.status} {r.message}",
                  file=sys.stderr)
    return 0 if n_ok == len(results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    handler = {"generate": cmd_generate, "sample": cmd_sample,
               "diagnose": cmd_diagnose, "experiment": cmd_experiment}[args.command]
    return handler(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
