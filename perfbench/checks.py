"""Output checks for one pass over a workload's cells.

A cell passes when it finished with status "ok", its posterior mean and final
state are finite, it repeats the first pass of the run exactly, and, at full
size, its posterior mean, final state and exit step match the ones recorded in
reference.json within the tolerance stored there.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = 64  # reference.json records the workload seeds 0 .. 63


def cell_key(cell) -> str:
    return f"n{cell.n}_seed{cell.seed}"


def cell_outputs(cell) -> dict:
    """The outputs of one cell that the reference records."""
    trace = cell.trace
    return {"mean": [float(v) for v in trace.ergodic_average("identity")],
            "final": [float(v) for v in trace.final_state],
            "exit_step": trace.exit_step}


def load_reference(workload: str, seed: int):
    """(cells, rtol, atol) recorded for this workload and seed, or None."""
    if not REFERENCE.is_file():
        return None
    doc = json.loads(REFERENCE.read_text())
    cells = doc["workloads"].get(workload, {}).get(str(seed))
    return None if cells is None else (cells, doc["rtol"], doc["atol"])


def _close(got, want, rtol, atol) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want))
                       <= atol + rtol * np.abs(np.asarray(want))))


def cell_problem(cell, first, reference) -> str:
    """Why the cell fails its checks, or "" when it passes."""
    if cell.status != "ok":
        return f"status {cell.status}: {cell.message}"
    got = cell_outputs(cell)
    if not (np.all(np.isfinite(got["mean"])) and np.all(np.isfinite(got["final"]))):
        return "non-finite posterior mean or final state"
    if first is not None and got != first:
        return "differs from the first pass of this run"
    if reference is not None:
        cells, rtol, atol = reference
        want = cells.get(cell_key(cell))
        if want is None:
            return "no reference recorded for this cell"
        if got["exit_step"] != want["exit_step"]:
            return f"exit_step {got['exit_step']} != reference {want['exit_step']}"
        for field in ("mean", "final"):
            if not _close(got[field], want[field], rtol, atol):
                return f"{field} {got[field]} != reference {want[field]}"
    return ""


def files_problem(out: Path, results, diagnostics) -> str:
    """Why the files run_experiment wrote are incomplete, or ""."""
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != len(results) + 1:
        return f"report.csv has {len(rows) - 1} rows for {len(results)} cells"
    manifest = json.loads((out / "manifest.json").read_text())
    if len(manifest["cells"]) != len(results):
        return "manifest.json does not list every cell"
    for r in results:
        if r.status == "ok" and not (out / f"trace_n{r.n}_p{r.p}_seed{r.seed}.csv").is_file():
            return f"missing trace CSV for {cell_key(r)}"
    if "recovery" in diagnostics and not (out / "recovery.csv").is_file():
        return "missing recovery.csv"
    return ""
