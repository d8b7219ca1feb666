"""The four benchmark workloads: seeded inputs and correctness gates.

Each workload turns a seed into a config file (or argv only, for `check`)
and checks what one `swlme` CLI call left behind. The program sees only the
generated files and argv; the seed never reaches it except as `check --seed`.

Why these four:

- run_swlme_dambreak: the linearized closure's production path. It loads
  the interface kernel (hydrostatic reconstruction, flux, path term, about
  39 wet checks per step) and the CSV writer (about 12 MB). It never takes
  the eigen-solve, so a wave-speed change should not move it.
- run_swme_smooth: the full closure, where the analytic speed bound fails
  for N >= 2 and every `cfl_dt` eigen-solves each cell. Output is negligible.
- converge_swe_dambreak: the same solver on small arrays (200..3200 cells),
  where per-call Python overhead outweighs array work, plus the exact Stoker
  solution and the only accuracy figure.
- check_identities: the energy-identity suite; never touches the solver.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass

# Finest-mesh L1 depth error gates recorded at the commit that introduced the
# benchmark: 0.02063..0.02181 over seeds 1..20 at full size (meshes
# 200..3200), 0.1057..0.1109 over seeds 1..10 at tiny size (100..400). Each
# gate leaves about 8% above the largest. The order band is the one
# acceptance criterion 10 uses for a first-order scheme on a discontinuous
# solution.
L1_GATE = {False: 0.0235, True: 0.12}
ORDER_BAND = (0.6, 1.1)
DRIFT_TOL = 1e-12

NAMES = ("run_swlme_dambreak", "run_swme_smooth", "converge_swe_dambreak", "check_identities")


@dataclass(frozen=True)
class Inputs:
    """What one workload hands the program, plus what its gates need."""

    argv: list            # swlme argv; the config path is already in it
    config: dict | None   # the generated config, None for `check`
    first_work: str       # function whose first call ends set-up
    l1_gate: float | None = None


def _jitter(rng: random.Random, value: float, share: float) -> float:
    """value scaled by a uniform factor in [1 - share, 1 + share]."""
    return value * (1.0 + share * rng.uniform(-1.0, 1.0))


def _write_config(cfg: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in cfg.items())


def make_inputs(name: str, seed: int, tiny: bool, work_dir: str) -> Inputs:
    """Generate the inputs of workload `name` from `seed` inside work_dir."""
    rng = random.Random(f"{name}:{seed}")
    out = os.path.join(work_dir, "out")
    cfg_path = os.path.join(work_dir, "scenario.cfg")
    if name == "check_identities":
        # numpy rejects negative seeds; the program's own seed stays a function of ours
        argv = ["check", "--seed", str(seed % 2**32)]
        if tiny:
            argv += ["--N", "0,1", "--samples", "1000"]
        return Inputs(argv, None, "diagnostics.check_total_energy_identity")

    if name == "run_swlme_dambreak":
        cfg = {
            "model.N": 3, "model.g": 9.81, "model.variant": "swlme",
            "grid.cells": 100 if tiny else 2000, "grid.xmin": -5.0, "grid.xmax": 5.0,
            "bc.kind": "reflective",
            "ic.name": "dam_break", "ic.h_l": _jitter(rng, 2.0, 0.02), "ic.h_r": 1.0,
            "ic.x0": 0.1 * rng.uniform(-1.0, 1.0),
            "topo.name": "gaussian",
            "time.t_end": 0.05 if tiny else 0.5, "time.cfl": 0.9,
            "output.path": out, "output.every_steps": 10,
        }
        argv = ["run", cfg_path]
    elif name == "run_swme_smooth":
        cfg = {
            "model.N": 3, "model.g": 9.81, "model.variant": "swme",
            "grid.cells": 50 if tiny else 800, "grid.xmin": 0.0, "grid.xmax": 1.0,
            "bc.kind": "periodic",
            "ic.name": "smooth_periodic", "ic.h0": 1.0, "ic.h_amp": 0.1,
            "ic.um_amp": _jitter(rng, 0.2, 0.05), "ic.u_amp": _jitter(rng, 0.1, 0.05),
            "time.t_end": 0.02 if tiny else 0.1, "time.cfl": 0.9,
            "output.path": out,
        }
        argv = ["run", cfg_path]
    elif name == "converge_swe_dambreak":
        cfg = {
            "model.N": 0, "model.g": 9.81, "model.variant": "swlme",
            "grid.cells": 200, "grid.xmin": -5.0, "grid.xmax": 5.0,
            "bc.kind": "outflow",
            "ic.name": "dam_break", "ic.h_l": _jitter(rng, 2.0, 0.02), "ic.h_r": 1.0,
            "ic.x0": 0.05 * rng.uniform(-1.0, 1.0),
            "time.t_end": 0.5, "time.cfl": 0.9,
            "output.path": out,
        }
        meshes = "100,200,400" if tiny else "200,400,800,1600,3200"
        _write_config(cfg, cfg_path)
        return Inputs(["converge", cfg_path, "--meshes", meshes], cfg, "solver.step",
                      L1_GATE[tiny])
    else:
        raise ValueError(f"unknown workload '{name}'")
    _write_config(cfg, cfg_path)
    return Inputs(argv, cfg, "solver.step")


def _read_summary(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "mass", "momentum", "total_energy"]:
        raise ValueError(f"summary.csv header {rows[0]}")
    return [[float(v) for v in row] for row in rows[1:]]


def _max_rel_drift(values: list) -> float:
    return max(abs(v - values[0]) for v in values) / abs(values[0])


def _snapshot_problems(cfg: dict, out: str, steps: int) -> list:
    """snapshots.csv must hold (snapshots x cells + 1) rows."""
    cells = int(cfg["grid.cells"])
    every = int(cfg.get("output.every_steps", 0))
    # t = 0, every k-th step, and the final step unless it was already one of them
    expected = 1 + (steps // every if every else 0) + (1 if not every or steps % every else 0)
    times, rows = [], 0
    with open(os.path.join(out, "snapshots.csv"), encoding="utf-8") as fh:
        next(fh)
        for rows, line in enumerate(fh, start=1):
            t = line.split(",", 1)[0]
            if not times or times[-1] != t:
                times.append(t)
    problems = []
    if rows != expected * cells:
        problems.append(f"snapshots.csv has {rows + 1} rows, expected {expected * cells + 1}")
    if len(times) != expected:
        problems.append(f"snapshots.csv has {len(times)} snapshot times, expected {expected}")
    return problems


def check_outputs(name: str, inputs: Inputs, stdout: str) -> tuple[list, float | None]:
    """Correctness gates of one completed run: (problems, l1_error_h or None)."""
    cfg = inputs.config
    if name == "check_identities":
        lines = stdout.splitlines()
        rows = [line for line in lines[1:] if line.split()[-1:] in (["pass"], ["FAIL"])]
        problems = [f"check row not pass: {row}" for row in rows if not row.endswith("pass")]
        if not rows or not lines[-1].startswith("all checks passed"):
            problems.append("check did not report 'all checks passed'")
        return problems, None

    if name == "converge_swe_dambreak":
        lines = stdout.strip().splitlines()
        meshes = inputs.argv[-1].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if lines[:1] != ["cells,l1_error,observed_order"] or [r[0] for r in rows] != meshes:
            return [f"converge printed {lines!r}"], None
        l1 = float(rows[-1][1])
        orders = [float(r[2]) for r in rows[1:]]
        problems = []
        if not l1 <= inputs.l1_gate:
            problems.append(f"l1_error_h {l1} above the gate {inputs.l1_gate}")
        lo, hi = ORDER_BAND
        problems += [f"observed order {o} outside [{lo}, {hi}]" for o in orders if not lo <= o <= hi]
        return problems, l1

    out = cfg["output.path"]
    rows = _read_summary(os.path.join(out, "summary.csv"))
    problems = []
    mass_drift = _max_rel_drift([r[1] for r in rows])
    if not mass_drift <= DRIFT_TOL:
        problems.append(f"relative mass drift {mass_drift:.3e} > {DRIFT_TOL}")
    if rows[-1][0] != float(cfg["time.t_end"]):
        problems.append(f"last summary time {rows[-1][0]} != t_end {cfg['time.t_end']}")
    if name == "run_swlme_dambreak":
        rises = [k for k in range(1, len(rows)) if rows[k][3] > rows[k - 1][3]]
        if rises:
            problems.append(f"total energy rose at {len(rises)} step(s), first at row {rises[0]}")
    else:
        mom_drift = _max_rel_drift([r[2] for r in rows])
        if not mom_drift <= DRIFT_TOL:
            problems.append(f"relative momentum drift {mom_drift:.3e} > {DRIFT_TOL}")
    problems += _snapshot_problems(cfg, out, len(rows) - 1)
    return problems, None
